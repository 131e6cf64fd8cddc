"""Assembly of the superasymptotic estimate for p2(n).

Builds the per-arc terms psi^(m)_{h,k} and phi^(m)_k, finds the optimal
(superasymptotic) truncation point in m for each k, chooses the arc cutoff in
k, and aggregates everything into an EstimateReport with an error ledger.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp

from .arith import (PrecisionContext, PrecisionError, constants, derived_constants, number_type,
                    precision_for)
from .almkvist import almkvist_series, saddle_data
from .dedekind import CoeffGenerator, _dot, _from_mpf, _normalize, _trig_fixed_row, c_hk
from .exact import p2_exact_table

# The numeric cutoff ends at the first arc whose nonzero probe is below
# K_THRESHOLD; mstar_numeric stops an arc's series at a term below M_FLOOR.
K_THRESHOLD = "0.01"
M_FLOOR = "0.001"
LAMBDA0 = "0.25"  # minor_arc_bound's Type II lam; above lambda_c = 0.1801...
MAX_ARCS = 500  # no cutoff, numeric or theoretical, includes this arc
LADDER_SEED = 32  # an Arc's first Almkvist series: most arcs stop below this m


def lambda_param(n: int, k: int, ctx: PrecisionContext | None = None):
    """lam = k^2 / (24 c2 n^(2/3)), in ctx's number type (arith.number_type):
    an mpf at its working precision or, without ctx, a Python float."""
    if n < 1 or k < 1:
        raise ValueError("lambda_param requires n, k >= 1")
    scope, one, *_ = number_type(ctx)
    with scope:
        return k * k / (24 * derived_constants(ctx).c2 * n ** (2 * one / 3))


def d_of_lambda(lam, ctx: PrecisionContext):
    """d(lam) = 72 a lam 4^-3 exp(24 zeta'(-1) + (1 + f1(lam))/lam)."""
    with ctx.workdps():
        lv = mpmath.mpf(lam)
        if lv <= 0:
            raise ValueError("d_of_lambda requires lam > 0")
        return _d_of_saddle(lv, saddle_data(lv, ctx), ctx)


def _d_of_saddle(lam, sd, ctx: PrecisionContext):
    """d(lam) from lam > 0 and its SaddleData, at the current precision."""
    cst = constants(ctx)
    return 72 * cst.a * lam / 64 * mp.exp(24 * cst.zeta_prime_m1 + (1 + sd.f1) / lam)


@lru_cache(maxsize=None)
def lambda_c(ctx: PrecisionContext):
    """The lam where d(lam) = 1 (arc-classification threshold)."""
    with ctx.workdps():
        return mp.findroot(lambda lam: d_of_lambda(lam, ctx) - 1, mpmath.mpf("0.18"))


# ---------------------------------------------------------------------------
# Term records and the per-k series engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermRecord:
    m: int
    value: mpmath.mpf


@dataclass
class PhiBreakdown:
    k: int
    m_star_used: int
    terms: list[TermRecord]
    terms_computed: int  # the terms evaluated, those past the minimum included
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

    Holds the h-weights (the arc prefactor times the C_{h,k} phases), one
    CoeffGenerator per coprime h <= k/2, the Almkvist ladder and the powers
    (a/k^3)^(m/2), all as floating integers: mantissas of exactly ctx.bits
    bits, each with its exponent.  Every input of a term is carried at
    ctx.bits: x, the weights (with C_{h,k} and the phases) and, behind
    b[m], each v^(p).  So the arc's integer state depends on the precision
    through ctx.bits alone.  A term is one _dot of cached weights with the
    generators' b[m] and two integer products, rounded once to the working
    precision; it is recomputed, not stored.

    For k >= 3, h pairs with k - h: C_{k-h,k} = C_{h,k} and the phase
    e^{-2 pi i n h / k} is conjugated, so coef_{k-h} = conj(coef_h), and the
    real rotated coefficients obey b_{k-h}[m] = (-1)^m b_h[m].  The pair adds
    i^m c b_h[m] to the h-sum, with c = c_e = 2 Re coef_h for even m and
    c = c_o = 2i Im coef_h for odd m (for k <= 2, c = coef_h, real, its own
    partner).  So the h-sum is real: i^m c is Re c_e, -Im c_o, -Re c_e and
    Im c_o for m = 0, 1, 2, 3 mod 4.  The arc keeps two weight rows, Re c_e
    and -Im c_o, one entry per h; the h-sum is the dot product of b_h[m]
    with the row of m's parity, negated for m = 2, 3 mod 4.

    The Almkvist values A_m = A(x | -k/12 - m) come from a ladder.  A
    request past its end seeds one series at top = max(m, 2 * len,
    LADDER_SEED), which gives top, top + 1 and top + 2, and runs
    24 A_m = 12 x A_{m+3} + (12 m + 36 + k) A_{m+2} down to the end of the
    ladder in Python integers over one power of two, the smallest seed given
    ctx.bits bits.  The recurrence is the ODE
    x y''' - (gamma - 3) y'' - 2 y = 0 with dA(x|gamma)/dx =
    A(x|gamma - 1).  Run downward, both of its terms are positive (x > 0,
    gamma < 3), so no step cancels, each adds one rounding error, and every
    value is larger than the one two steps up; run upward, it subtracts
    nearly equal numbers and loses every digit.  The first block, seeded by
    the probe's m = 0 request, reaches past the last term of most arcs;
    doubling the later blocks costs O(log m) series per arc.
    """

    def __init__(self, n: int, k: int, ctx: PrecisionContext):
        if n < 1 or k < 1:
            raise ValueError("Arc requires n, k >= 1")
        self.n, self.k, self.ctx = n, k, ctx
        self._ladder: list[tuple[int, int]] = []  # A_0, A_1, ...
        cst = constants(ctx)
        with mp.workprec(ctx.bits):
            kf = mpmath.mpf(k)
            sqrt_ak3 = mp.sqrt(cst.a / kf**3)
            self._sqrt_ak3 = _from_mpf(sqrt_ak3._mpf_, ctx.bits)
            self.x = sqrt_ak3 * n
            self._powers = [(1 << (ctx.bits - 1), 1 - ctx.bits)]  # (a/k^3)^(m/2), m = 0, 1, ...
            base = mp.exp(k * cst.zeta_prime_m1) * (cst.a / kf) ** (
                mpmath.mpf(1) / 2 + kf / 24) / kf
            # h <= k/2: [0] for k = 1, [1] for k = 2, h < k/2 for k >= 3
            hs = [h for h in range(k // 2 + 1) if math.gcd(h, k) == 1]
            self.gens = [CoeffGenerator(h, k, ctx) for h in hs]
            cos, sin, _ = _trig_fixed_row(k, ctx.bits)
            e = -ctx.bits  # the rows are integers over 2^-e
            # per parity of m, the mantissas and the exponents of the weights, one per h
            self._weights = (([], []), ([], []))
            for h in hs:
                j = (-n * h) % k
                scale = mp.exp(c_hk(h, k, ctx)) * (1 if 2 * h % k == 0 else 2)
                re, im = (base * mpmath.mpf((row[j], e)) * scale for row in (cos, sin))
                for (mans, exps), v in zip(self._weights, (re, -im)):
                    man, exp = _from_mpf(v._mpf_, ctx.bits)
                    mans.append(man)
                    exps.append(exp)

    def _almkvist_fixed(self, m: int) -> tuple[int, int]:
        """A_m as a floating integer, extending the ladder past its end."""
        if m < 0:
            raise ValueError("Arc.almkvist requires m >= 0")
        ladder = self._ladder
        if m >= len(ladder):
            top = max(m, 2 * len(ladder), LADDER_SEED)
            ev = almkvist_series(self.x, Fraction(-self.k, 12) - top, self.ctx)
            seeds = (ev.value_m2, ev.value_m1, ev.value)  # top+2, top+1, top
            # integers over 2^e: the smallest seed gets ctx.bits bits, and
            # every value down the ladder is larger
            e = min(v.exp + v.bc for v in seeds) - self.ctx.bits
            block = [v.man << (v.exp - e) for v in seeds]
            xm, xe = self.x.man, self.x.exp
            for j in range(top - 1, len(ladder) - 1, -1):
                xa = block[-3] * xm
                xa = xa << xe if xe >= 0 else xa >> -xe
                block.append((12 * xa + (12 * j + 36 + self.k) * block[-2]) // 24)
            ladder += [_normalize(a, e, self.ctx.bits) for a in reversed(block)]
        return ladder[m]

    def almkvist(self, m: int):
        """A(x | -k/12 - m) at the working precision, from the ladder."""
        return mp.make_mpf(from_man_exp(*self._almkvist_fixed(m), self.ctx.prec, "n"))

    def term(self, m: int):
        """phi^(m)_k(n) as a real mpf: (a/k^3)^(m/2) A_m times one dot product
        of the weights with the generators' b[m].  Terms may be requested in
        any order, but increasing m reuses all coefficient work."""
        if m < 0:
            raise ValueError("Arc.term requires m >= 0")
        for gen in self.gens:
            gen.extend_to(m)
        powers, (s, se) = self._powers, self._sqrt_ak3
        while len(powers) <= m:
            man, exp = powers[-1]
            powers.append(_normalize(man * s, exp + se, self.ctx.bits))
        acc, e = _dot(*self._weights[m % 2], [g.b[m] for g in self.gens],
                      [g.b_exp[m] for g in self.gens])
        a, ae = self._almkvist_fixed(m)
        p, pe = powers[m]
        sign = -1 if m % 4 > 1 else 1
        return mp.make_mpf(from_man_exp(sign * acc * a * p, e + ae + pe, self.ctx.prec, "n"))


def mstar_theory(n: int, k: int, ctx: PrecisionContext | None = None):
    """Predicted truncation point M*(n,k) from the saddle-point analysis, in
    ctx's number type (see lambda_param): without ctx, a Python float from
    one float solve of the saddle cubic (saddle_data), which is what
    mstar_numeric reads."""
    if n < 1 or k < 1:
        raise ValueError("mstar_theory requires n, k >= 1")
    scope, one, *_ = number_type(ctx)
    with scope:
        return _mstar_of_saddle(k, saddle_data(lambda_param(n, k, ctx), ctx),
                                derived_constants(ctx).c2, n ** (one / 3))


def _mstar_of_saddle(k: int, sd, c2, n13):
    """M*(n,k) from the SaddleData of lam(n, k), c2 and n^(1/3)."""
    return (sd.c / k) * n13 - (sd.c * sd.c / (4 * c2 * k)) * sd.f1pp


def mstar_numeric(arc: Arc) -> PhiBreakdown:
    """Sum the arc's phi^(m)_k in increasing m (even m for k <= 2) in one
    pass, ending the kept terms at m_star_used on one of three exits:
    below-floor (a nonzero term under M_FLOOR), minimum-found (two
    consecutive increases of the pair size among the armed pairs; the terms
    end at the minimum pair's last term) or exhausted (m reached
    3 M*(n,k) + 60).  For k >= 3 a pair is an even m and the odd m after it,
    of size |phi^(m)| + |phi^(m+1)|: the series splits by the parity of m,
    and the parities can run at sizes 40x apart.  For k <= 2 the odd terms
    are exact zeros, so each even term is its own pair.  A pair is armed
    from its even m >= min_gate on, unless its size is exactly 0.
    min_gate = int(M*/2) and the cap read M* from mstar_theory in floats:
    only their integer parts matter, and on a grid of n up to 7100 and k up
    to 67 they equal a 30-digit solve's (tests/test_circle.py).
    trunc_error_est is the last kept term's size, or on minimum-found the
    next armed pair's size.  Exact zeros are summed but end nothing, so the
    exit depends on the terms alone, not on the working precision."""
    n, k, ctx = arc.n, arc.k, arc.ctx
    with ctx.workdps():
        floor_v = mpmath.mpf(M_FLOOR)
        theory = mstar_theory(n, k)
        # Near-cancellation dips in the head of the series (before the
        # asymptotic decay regime) can mimic the superasymptotic minimum;
        # the minimum rule stays disarmed until m reaches half the
        # theoretical minimum location.
        min_gate = int(theory / 2)
        terms: list[TermRecord] = []
        # (index in terms of its last term, size) of each armed pair
        armed: list[tuple[int, mpmath.mpf]] = []
        stop_reason = "exhausted"
        for m in range(0, int(3 * theory) + 61, 2 if k <= 2 else 1):
            val = arc.term(m)
            ab = abs(val)
            terms.append(TermRecord(m=m, value=val))
            # Structural zeros (the h-sum cancels) carry no size information:
            # they are kept in the sum but ignored by the floor rule, and a
            # pair of two of them is not armed.  They are exact zeros: the
            # trig rows set cos = 0 at j = k/4 and -1 at j = k/2 exactly, and
            # the h-sum is one integer dot product, so a cancelling sum comes
            # out exactly 0.
            if ab and ab < floor_v:
                stop_reason = "below-floor"
                break
            # the pair of m - m % 2 is read at its last term: at its odd m
            # for k >= 3, at its even m for k <= 2
            size = size + ab if m % 2 else ab
            if (k > 2 and not m % 2) or m - m % 2 < min_gate or not size:
                continue
            armed.append((len(terms) - 1, size))
            if len(armed) >= 3 and size > armed[-2][1] > armed[-3][1]:
                stop_reason = "minimum-found"
                break
        trunc, computed = ab, len(terms)
        if stop_reason == "minimum-found":
            # the first neglected armed pair after the minimum (the current
            # pair at the latest)
            low = min(range(len(armed)), key=lambda i: armed[i][1])
            trunc = armed[low + 1][1]
            del terms[armed[low][0] + 1:]
        return PhiBreakdown(k=k, m_star_used=terms[-1].m, terms=terms, terms_computed=computed,
                            phi_value=mp.fsum(r.value for r in terms),
                            trunc_error_est=trunc, stop_reason=stop_reason)


def _finite_kappa2(kappa2):
    """kappa2 as an mpf at the working precision; ValueError unless finite
    (an infinite or nan kappa2 has no N(n) and no Type I bound)."""
    if not mp.isfinite(mpmath.mpf(kappa2)):
        raise ValueError(f"kappa2 must be finite, not {kappa2}")
    return mpmath.mpf(kappa2)


def n_cutoff_theory(n: int, kappa2, ctx: PrecisionContext):
    """Major-arc cutoff N(n) = 2.948 n^(1/3) + (2.936 k2 - 1.468) log n + beta3,
    with beta3 = 1.587 + 2.936 k3 and k3 = 0.06."""
    if n < 1:
        raise ValueError("n_cutoff_theory requires n >= 1")
    with ctx.workdps():
        n13 = mpmath.mpf(n) ** (mpmath.mpf(1) / 3)
        beta3 = mpmath.mpf("1.587") + mpmath.mpf("2.936") * mpmath.mpf("0.06")
        return (mpmath.mpf("2.948") * n13
                + (mpmath.mpf("2.936") * _finite_kappa2(kappa2) - mpmath.mpf("1.468"))
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
        sd = saddle_data(lam, ctx)
        n13 = mpmath.mpf(n) ** (mpmath.mpf(1) / 3)
        c, mstar = sd.c, _mstar_of_saddle(k, sd, der.c2, n13)
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


def minor_arc_bound(n: int, kappa2, ctx: PrecisionContext) -> MinorArcBound:
    """Type I and Type II minor-arc bounds, the latter at lam = LAMBDA0."""
    if n < 1:
        raise ValueError("minor_arc_bound requires n >= 1")
    with ctx.workdps():
        kappa3 = mp.log(mpmath.mpf("1.06"))
        nf = mpmath.mpf(n)
        type1 = mpmath.mpf("1.06") * nf ** (-_finite_kappa2(kappa2)) * mp.exp(-kappa3)
        d0 = d_of_lambda(mpmath.mpf(LAMBDA0), ctx)
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
        n23 = mpmath.mpf(n) ** (mpmath.mpf(2) / 3)
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
        bound2 = mp.sqrt(72 * cst.a / (cst.pi * kf**3)) * _d_of_saddle(lam, sd, ctx) ** (kf / 24)
        return min(bound1, bound2)


def p2_estimate(n: int, kappa2=None, digits: int | None = None,
                with_exact: bool = False) -> EstimateReport:
    """Full superasymptotic estimate of p2(n) with an error ledger.

    Each arc k = 1, 2, ... is built once and probed (cutoff_probe).  Arcs are
    included up to the numeric cutoff (the k before the first arc whose
    nonzero probe drops below K_THRESHOLD) by default, or up to [N(n)] when
    kappa2 is given; each included arc is truncated in m per mstar_numeric.
    estimated_error aggregates the per-k truncation estimates plus the probe
    of the first excluded arc whose probe is nonzero, searched over at most
    seven arcs.  A kappa2 whose N(n) reaches MAX_ARCS is rejected.  digits
    sets the working precision (see precision_for); PrecisionError if its
    certified digits (ctx.eps) do not reach the units place of arc 1's m = 0
    term (checked before any arc is summed) or of the estimate, and when an
    included arc ends exhausted, whose trunc_error_est is only its last
    term's size.
    """
    if n < 1:
        raise ValueError("p2_estimate requires n >= 1")
    ctx = precision_for(n, digits)
    uncertified = f"{ctx.decimal_digits} digits cannot certify the units place of p2({n})"
    per_k: list[PhiBreakdown] = []
    with ctx.workdps():
        thr = mpmath.mpf(K_THRESHOLD)
        n_incl = (max(1, int(mp.floor(n_cutoff_theory(n, kappa2, ctx))))
                  if kappa2 is not None else None)
        if n_incl is not None and n_incl >= MAX_ARCS:
            raise ValueError(f"p2_estimate requires floor(N(n)) < {MAX_ARCS}")
        for k in itertools.count(1):
            if n_incl is None and k == MAX_ARCS:
                raise PrecisionError("cutoff probe never dropped below threshold")
            arc = Arc(n, k, ctx)
            probe = cutoff_probe(arc)
            # The sum's roundoff scales with its largest term, arc 1's m = 0.
            if k == 1 and probe * ctx.eps >= mpmath.mpf(1) / 2:
                raise PrecisionError(uncertified)
            # Structural zeros of the m = 0 term are skipped: they say nothing
            # about the arc's size (its higher-m terms do not cancel).
            if n_incl is None and probe != 0 and probe < thr:
                n_incl = max(1, k - 1)
            if n_incl is None or k <= n_incl:
                per_k.append(mstar_numeric(arc))
            elif probe != 0 or k == n_incl + 7:
                probe_next = probe
                break
        estimate = mp.fsum(b.phi_value for b in per_k)
        if abs(estimate) * ctx.eps >= mpmath.mpf(1) / 2:
            raise PrecisionError(uncertified)
        exhausted = [b.k for b in per_k if b.stop_reason == "exhausted"]
        if exhausted:
            raise PrecisionError(f"arcs {exhausted} of p2({n}) ended exhausted: "
                                 "their truncation errors are not estimated")
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
