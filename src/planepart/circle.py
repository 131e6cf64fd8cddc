"""Assembly of the superasymptotic estimate for p2(n).

Builds the per-arc terms psi^(m)_{h,k} and phi^(m)_k, finds the optimal
(superasymptotic) truncation point in m for each k, chooses the arc cutoff in
k, and aggregates everything into an EstimateReport with an error ledger.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath import mp

from .arith import (PrecisionContext, PrecisionError, constants,
                    derived_constants, precision_for)
from .almkvist import almkvist_series, saddle_data
from .dedekind import CoeffGenerator, _roots_row, c_hk
from .exact import p2_exact_table

DEFAULT_K_THRESHOLD = "0.01"
DEFAULT_M_FLOOR = "0.001"
MAX_ARCS = 500  # no cutoff, numeric or theoretical, includes this arc


def lambda_param(n: int, k: int, ctx: PrecisionContext):
    """lam = k^2 / (24 c2 n^(2/3))."""
    if n < 1 or k < 1:
        raise ValueError("lambda_param requires n, k >= 1")
    der = derived_constants(ctx)
    with ctx.workdps():
        return mpmath.mpf(k * k) / (24 * der.c2 * mpmath.mpf(n) ** (mpmath.mpf(2) / 3))


def c_of_lambda(lam, ctx: PrecisionContext):
    """c(lam) = 4 pi^2 e^{-f1'(lam)/2} / (2a)^(1/3)."""
    cst = constants(ctx)
    with ctx.workdps():
        sd = saddle_data(lam, ctx)
        return 4 * cst.pi**2 * mp.exp(-sd.f1p / 2) / mp.cbrt(2 * cst.a)


def d_of_lambda(lam, ctx: PrecisionContext):
    """d(lam) = 72 a lam 4^-3 exp(24 zeta'(-1) + (1 + f1(lam))/lam)."""
    cst = constants(ctx)
    with ctx.workdps():
        lv = mpmath.mpf(lam)
        if lv <= 0:
            raise ValueError("d_of_lambda requires lam > 0")
        sd = saddle_data(lv, ctx)
        return (72 * cst.a * lv / 64
                * mp.exp(24 * cst.zeta_prime_m1 + (1 + sd.f1) / lv))


@lru_cache(maxsize=None)
def _lambda_c_at(dps: int):
    ctx = PrecisionContext(decimal_digits=dps)
    with ctx.workdps():
        lo, hi = mpmath.mpf("0.01"), mpmath.mpf("1.0")  # d decreasing, d(lo) > 1 > d(hi)
        for _ in range(int(dps * 3.4) + 20):
            mid = (lo + hi) / 2
            if d_of_lambda(mid, ctx) > 1:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def lambda_c(ctx: PrecisionContext):
    """The lam where d(lam) = 1 (arc-classification threshold)."""
    return _lambda_c_at(ctx.decimal_digits)


# ---------------------------------------------------------------------------
# Term records and the per-k series engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermRecord:
    k: int
    m: int
    value: mpmath.mpf
    abs_value: mpmath.mpf


@dataclass
class PhiBreakdown:
    k: int
    m_star_used: int
    terms: list[TermRecord]
    phi_value: mpmath.mpf
    trunc_error_est: mpmath.mpf
    stop_reason: str  # minimum-found | below-floor | exhausted


@dataclass
class EstimateReport:
    n: int
    N_used: int
    per_k: list[PhiBreakdown]
    estimate: mpmath.mpf
    rounded: int
    estimated_error: mpmath.mpf
    decimal_digits: int  # the working precision of the estimate
    exact: int | None = None
    actual_error: mpmath.mpf | None = None


class Arc:
    """The k-th Farey arc of the estimate for p2(n): its terms phi^(m)_k(n).

    Holds the arc prefactor, the C_{h,k} phases and one CoeffGenerator per h,
    and remembers every term it has computed, so probing the arc and then
    truncating it evaluates each term once.
    """

    def __init__(self, n: int, k: int, ctx: PrecisionContext):
        self.n, self.k, self.ctx = n, k, ctx
        self._terms: dict[int, mpmath.mpf] = {}
        cst = constants(ctx)
        with ctx.workdps():
            a = cst.a
            kf = mpmath.mpf(k)
            self.x = mp.sqrt(a / kf**3) * n
            self.sqrt_ak3 = mp.sqrt(a / kf**3)
            base = mp.exp(k * cst.zeta_prime_m1) * (a / kf) ** (
                mpmath.mpf(1) / 2 + kf / 24) / kf
            hs = [h for h in range(k) if math.gcd(h, k) == 1]  # [0] for k = 1
            self.gens = [CoeffGenerator(h, k, ctx) for h in hs]
            roots = _roots_row(k, mp.prec)
            self.coefs = [base * roots[(-n * h) % k] * mp.exp(c_hk(h, k, ctx))
                          for h in hs]
            self.im_tol = mpmath.mpf(10) ** (-(ctx.decimal_digits // 2))

    def term(self, m: int):
        """phi^(m)_k(n) as a real mpf; terms may be requested in any order but
        increasing m reuses all coefficient work."""
        if m in self._terms:
            return self._terms[m]
        with self.ctx.workdps():
            for gen in self.gens:
                gen.extend_to(m)
            gamma = -mpmath.mpf(self.k) / 12 - m
            A = almkvist_series(self.x, gamma, self.ctx).value
            acc = sum((c * g.b[m] for c, g in zip(self.coefs, self.gens)),
                      mpmath.mpc(0))
            val = self.sqrt_ak3 ** m * A * acc
            if abs(val.imag) / max(abs(val.real), mpmath.mpf(1)) > self.im_tol:
                raise PrecisionError(
                    f"phi_{self.k}^({m})({self.n}) has a non-negligible "
                    f"imaginary part; increase precision")
            self._terms[m] = val.real
            return self._terms[m]


def mstar_theory(n: int, k: int, ctx: PrecisionContext):
    """Predicted truncation point M*(n,k) from the saddle-point analysis."""
    if n < 1 or k < 1:
        raise ValueError("mstar_theory requires n, k >= 1")
    der = derived_constants(ctx)
    with ctx.workdps():
        lam = lambda_param(n, k, ctx)
        sd = saddle_data(lam, ctx)
        c = c_of_lambda(lam, ctx)
        n13 = mpmath.mpf(n) ** (mpmath.mpf(1) / 3)
        return (c / k) * n13 - (c * c / (4 * der.c2 * k)) * sd.f1pp


def mstar_numeric(arc: Arc, floor=DEFAULT_M_FLOOR) -> PhiBreakdown:
    """Sum the arc's phi^(m)_k in increasing m, truncating at the
    superasymptotic minimum term (declared after two consecutive increases of
    |phi^(m)| on the structurally-nonzero subsequence) or earlier when
    |phi^(m)| < floor."""
    n, k, ctx = arc.n, arc.k, arc.ctx
    step = 2 if k <= 2 else 1
    with ctx.workdps():
        floor_v = mpmath.mpf(floor)
        theory = mstar_theory(n, k, ctx)
        cap = int(3 * theory) + 60
        # Near-cancellation dips in the head of the series (before the
        # asymptotic decay regime) can mimic the superasymptotic minimum;
        # the minimum rules stay disarmed until m reaches half the
        # theoretical minimum location.
        min_gate = int(theory / 2)
        records: list[TermRecord] = []
        abs_seq: list = []
        stop_reason = "exhausted"
        m_star = None
        trunc = None
        max_ab = mpmath.mpf(0)
        min_entry = None  # (m, ab, record index) of the running minimum
        m = 0
        while m <= cap:
            val = arc.term(m)
            ab = abs(val)
            records.append(TermRecord(k=k, m=m, value=val, abs_value=ab))
            # Structural zeros (exact h-sum cancellation) carry no size
            # information: they are kept in the sum but ignored by the
            # floor and minimum rules.  A value at the roundoff floor of
            # the largest term seen so far is such a zero contaminated by
            # cancellation error, not a genuinely small term.
            max_ab = max(max_ab, ab)
            if ab != 0 and ab > max_ab * ctx.eps:
                if ab < floor_v:
                    stop_reason = "below-floor"
                    m_star = m
                    trunc = ab
                    break
                if m < min_gate:
                    m += step
                    continue
                abs_seq.append((m, ab, len(records) - 1))
                if min_entry is None or ab < min_entry[1]:
                    min_entry = abs_seq[-1]
                # The minimum term is declared either after two consecutive
                # increases of |phi^(m)| or once a term exceeds 8x the
                # running minimum (the divergent tail can zig-zag between
                # parities, which defeats the consecutive-increase test).
                two_incr = (len(abs_seq) >= 3
                            and abs_seq[-1][1] > abs_seq[-2][1] > abs_seq[-3][1])
                blowup = ab > 8 * min_entry[1]
                if two_incr or blowup:
                    stop_reason = "minimum-found"
                    m_star = min_entry[0]
                    # first neglected nonzero term after the minimum
                    trunc = next(r.abs_value
                                 for r in records[min_entry[2] + 1:]
                                 if r.abs_value > 0)
                    records = records[:min_entry[2] + 1]
                    break
            m += step
        if m_star is None:
            m_star = records[-1].m if records else 0
            trunc = records[-1].abs_value if records else mpmath.mpf(0)
        phi_value = mp.fsum(r.value for r in records)
        return PhiBreakdown(k=k, m_star_used=m_star, terms=records,
                            phi_value=phi_value, trunc_error_est=trunc,
                            stop_reason=stop_reason)


def n_cutoff_theory(n: int, kappa2, ctx: PrecisionContext):
    """Major-arc cutoff N(n) = 2.948 n^(1/3) + (2.936 k2 - 1.468) log n + beta3,
    with beta3 = 1.587 + 2.936 k3 and k3 = 0.06."""
    if n < 1:
        raise ValueError("n_cutoff_theory requires n >= 1")
    with ctx.workdps():
        n13 = mpmath.mpf(n) ** (mpmath.mpf(1) / 3)
        beta3 = mpmath.mpf("1.587") + mpmath.mpf("2.936") * mpmath.mpf("0.06")
        return (mpmath.mpf("2.948") * n13
                + (mpmath.mpf("2.936") * mpmath.mpf(kappa2) - mpmath.mpf("1.468"))
                * mp.log(n) + beta3)


def cutoff_probe(arc: Arc):
    """Size probe for the arc: |phi^(0)_k(n)|, the magnitude of its leading
    (m = 0) term.

    This is what the closed-form proxy
    k^(k/12) e^(k zeta'(-1)) (a/k)^(1/2 + k/24) A(sqrt(a/k^3) n | -k/12)
    estimates; evaluating the term itself keeps the h-sum phases, which the
    proxy overstates by several orders of magnitude at cutoff scale.  The
    probe can be exactly zero when the h-sum cancels structurally.
    """
    with arc.ctx.workdps():
        return abs(arc.term(0))


def sa_error_bound(n: int, k: int, ctx: PrecisionContext):
    """Superasymptotic truncation-error bound for arc k (valid for lam <= lam_c)."""
    cst = constants(ctx)
    der = derived_constants(ctx)
    with ctx.workdps():
        lam = lambda_param(n, k, ctx)
        if lam > lambda_c(ctx):
            raise ValueError("sa_error_bound is only claimed for lam <= lam_c")
        c = c_of_lambda(lam, ctx)
        mstar = mstar_theory(n, k, ctx)
        nf = mpmath.mpf(n)
        n13 = nf ** (mpmath.mpf(1) / 3)
        n23 = n13 * n13
        pref = (mpmath.mpf(k) ** (-mpmath.mpf(1) / 2) * der.c1**k
                * (k * k / n23) ** (1 + mpmath.mpf(k) / 24)
                / (cst.pi**2 * (2 * cst.a) ** (-mpmath.mpf(1) / 6)
                   * mp.sqrt(3 * mstar)))
        expo = (-c * c / (4 * der.c2) - c * n13 + der.c2 * n23) / k
        return pref * mp.exp(expo)


@dataclass(frozen=True)
class MinorArcBound:
    type1: mpmath.mpf
    type2: mpmath.mpf


def minor_arc_bound(n: int, kappa2, ctx: PrecisionContext,
                    lambda0="0.25") -> MinorArcBound:
    """Type I and Type II minor-arc bounds; lambda0 must exceed lam_c."""
    if n < 1:
        raise ValueError("minor_arc_bound requires n >= 1")
    with ctx.workdps():
        lam0 = mpmath.mpf(lambda0)
        if lam0 <= lambda_c(ctx):
            raise ValueError("minor_arc_bound requires lambda0 > lambda_c")
        kappa3 = mp.log(mpmath.mpf("1.06"))
        nf = mpmath.mpf(n)
        type1 = mpmath.mpf("1.06") * nf ** (-mpmath.mpf(kappa2)) * mp.exp(-kappa3)
        d0 = d_of_lambda(lam0, ctx)
        beta1 = mpmath.mpf("2.948")
        c3 = -(beta1 / 24) * mp.log(d0)
        type2 = (mpmath.mpf("2.07") / mp.sqrt(nf)
                 / (1 - d0 ** (mpmath.mpf(1) / 24))
                 * mp.exp(-c3 * nf ** (mpmath.mpf(1) / 3)))
        return MinorArcBound(type1=type1, type2=type2)


def phi0_bound(n: int, k: int, ctx: PrecisionContext):
    """Upper bound for |phi^(0)_k(n)|: the minimum of the two published forms."""
    cst = constants(ctx)
    der = derived_constants(ctx)
    with ctx.workdps():
        lam = lambda_param(n, k, ctx)
        sd = saddle_data(lam, ctx)
        nf = mpmath.mpf(n)
        n23 = nf ** (mpmath.mpf(2) / 3)
        kf = mpmath.mpf(k)
        bound1 = (der.c1**k * (kf * kf / n23) ** (1 + kf / 24)
                  / ((2 * cst.a) ** (-mpmath.mpf(1) / 6) * mp.sqrt(6 * cst.pi * kf**3))
                  * mp.exp((der.c2 * n23 / k) * (1 + sd.f1)) * (1 + sd.f2))
        if k == 1:
            # c1 carries the (k 2^-alpha)^(k/12) estimate (alpha = 3) for
            # e^{C_{h,k}} over 1 <= h < k; the k = 1 arc is the single
            # h = 0 term with C_{0,1} = 0, so the 2^{-1/4} factor must be
            # undone.
            bound1 *= 2 ** (mpmath.mpf(1) / 4)
        bound2 = None
        if lam > 0:
            d0 = d_of_lambda(lam, ctx)
            bound2 = mp.sqrt(72 * cst.a / (cst.pi * kf**3)) * d0 ** (kf / 24)
        return bound1 if bound2 is None else min(bound1, bound2)


def p2_estimate(n: int, kappa2=None, k_threshold=DEFAULT_K_THRESHOLD,
                m_floor=DEFAULT_M_FLOOR, digits: int | None = None,
                with_exact: bool = False) -> EstimateReport:
    """Full superasymptotic estimate of p2(n) with an error ledger.

    Each arc k = 1, 2, ... is built once and probed (cutoff_probe).  Arcs are
    included up to the numeric cutoff (the k before the first arc whose
    nonzero probe drops below k_threshold) by default, or up to [N(n)] when
    kappa2 is given; each included arc is truncated in m per mstar_numeric.
    estimated_error aggregates the per-k truncation estimates plus the probe
    of the first excluded arc whose probe is nonzero, searched over at most
    seven arcs.  k_threshold must be positive: no probe falls below a
    threshold <= 0.  A kappa2 whose N(n) reaches MAX_ARCS is rejected.
    """
    if n < 1:
        raise ValueError("p2_estimate requires n >= 1")
    ctx = PrecisionContext(decimal_digits=digits) if digits else precision_for(n)
    per_k: list[PhiBreakdown] = []
    with ctx.workdps():
        thr = mpmath.mpf(k_threshold)
        if not thr > 0:  # also rejects nan
            raise ValueError("p2_estimate requires k_threshold > 0")
        n_incl = (max(1, int(mp.floor(n_cutoff_theory(n, kappa2, ctx))))
                  if kappa2 is not None else None)
        if n_incl is not None and n_incl >= MAX_ARCS:
            raise ValueError(f"p2_estimate requires floor(N(n)) < {MAX_ARCS}")
        for k in itertools.count(1):
            if n_incl is None and k == MAX_ARCS:
                raise PrecisionError("cutoff probe never dropped below threshold")
            arc = Arc(n, k, ctx)
            probe = cutoff_probe(arc)
            # Structural zeros of the m = 0 term are skipped: they say nothing
            # about the arc's size (its higher-m terms do not cancel).
            if n_incl is None and probe != 0 and probe < thr:
                n_incl = max(1, k - 1)
            if n_incl is None or k <= n_incl:
                per_k.append(mstar_numeric(arc, m_floor))
            elif probe != 0 or k == n_incl + 7:
                probe_next = probe
                break
        estimate = mp.fsum(b.phi_value for b in per_k)
        est_err = mp.fsum(b.trunc_error_est for b in per_k) + probe_next
        rounded = int(mp.nint(estimate))
    report = EstimateReport(n=n, N_used=n_incl, per_k=per_k, estimate=estimate,
                            rounded=rounded, estimated_error=est_err,
                            decimal_digits=ctx.decimal_digits)
    if with_exact:
        exact = p2_exact_table(n)[n]
        with ctx.workdps():
            report.exact = exact
            report.actual_error = estimate - exact
    return report
