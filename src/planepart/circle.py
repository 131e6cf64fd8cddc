"""Assembly of the superasymptotic estimate for p2(n).

Builds the per-arc terms psi^(m)_{h,k} and phi^(m)_k, finds the optimal
(superasymptotic) truncation point in m for each k, chooses the arc cutoff in
k, and aggregates everything into an EstimateReport with an error ledger.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp

from .arith import (PrecisionContext, PrecisionError, arc_precision, constants,
                    derived_constants, number_type, precision_for)
from .almkvist import almkvist_series, saddle_data
from .dedekind import CoeffGenerator, _dot, _from_mpf, _normalize, _trig_fixed_row, c_hk
from .exact import p2_exact_table

# The numeric cutoff ends at the first arc whose nonzero probe is below
# K_THRESHOLD; mstar_numeric stops an arc's series at a term below M_FLOOR.
K_THRESHOLD = "0.01"
M_FLOOR = "0.001"
MAX_ARCS = 500  # no cutoff, numeric or theoretical, includes this arc
LADDER_SEED = 32  # an Arc's first Almkvist series: most arcs stop below this m
_ESTIMATE_LOCK = threading.Lock()  # held by each p2_estimate: mpmath's precision is global


def lambda_param(n: int, k: int, ctx: PrecisionContext | None = None):
    """lam = k^2 / (24 c2 n^(2/3)), in ctx's number type (arith.number_type):
    an mpf at its working precision or, without ctx, a Python float."""
    if n < 1 or k < 1:
        raise ValueError("lambda_param requires n, k >= 1")
    scope, one, *_ = number_type(ctx)
    with scope:
        return k * k / (24 * derived_constants(ctx).c2 * n ** (2 * one / 3))


def _log_d_of_saddle(lam, sd, ctx: PrecisionContext | None = None):
    """log d(lam) from lam > 0 and its SaddleData, in ctx's number type (the
    caller's scope), with d(lam) = 72 a lam 4^-3 exp(24 zeta'(-1) + (1 +
    f1(lam))/lam)."""
    cst, lib = constants(ctx), number_type(ctx)[2]
    return lib.log(72 * cst.a * lam / 64) + 24 * cst.zeta_prime_m1 + (1 + sd.f1) / lam


def lambda_c(ctx: PrecisionContext):
    """The lam where d(lam) = 1 (arc-classification threshold): the root of
    log d(lam)."""
    with ctx.workdps():
        return mp.findroot(lambda lam: _log_d_of_saddle(lam, saddle_data(lam, ctx), ctx),
                           mpmath.mpf("0.18"))


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
    decimal_digits: int  # the working precision of the arc (arith.arc_precision)


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


class _ArcCore:
    """The part of arc k that does not depend on n, at one ctx.bits: the
    coprime h <= k/2, one CoeffGenerator per h, sqrt(a/k^3) and the powers
    (a/k^3)^(m/2), the arc prefactor base = e^{k zeta'(-1)} (a/k)^(1/2 +
    k/24) / k and each h's factor e^{C_{h,k}} (times 2 unless h pairs with
    itself).  The generators and the powers grow with the largest m any arc
    asks for, under the core's lock."""

    def __init__(self, k: int, ctx: PrecisionContext):
        self.ctx = ctx
        self.lock = threading.Lock()
        cst = constants(ctx)
        with mp.workprec(ctx.bits):
            kf = mpmath.mpf(k)
            self.sqrt_ak3 = mp.sqrt(cst.a / kf**3)
            self.sqrt_fixed = _from_mpf(self.sqrt_ak3._mpf_, ctx.bits)
            self.powers = [(1 << (ctx.bits - 1), 1 - ctx.bits)]  # (a/k^3)^(m/2), m = 0, 1, ...
            self.base = mp.exp(k * cst.zeta_prime_m1) * (cst.a / kf) ** (
                mpmath.mpf(1) / 2 + kf / 24) / kf
            # h <= k/2: [0] for k = 1, [1] for k = 2, h < k/2 for k >= 3
            self.hs = [h for h in range(k // 2 + 1) if math.gcd(h, k) == 1]
            self.gens = [CoeffGenerator(h, k, ctx) for h in self.hs]
            self.scales = [mp.exp(c_hk(h, k, ctx)) * (1 if 2 * h % k == 0 else 2)
                           for h in self.hs]

    def extend_to(self, m: int) -> None:
        """Every generator's b[m] and the powers up to m; the powers last,
        so a power list longer than m shows that b[m] is there."""
        with self.lock:
            for gen in self.gens:
                gen.extend_to(m)
            powers, (s, se) = self.powers, self.sqrt_fixed
            while len(powers) <= m:
                man, exp = powers[-1]
                powers.append(_normalize(man * s, exp + se, self.ctx.bits))


# the core of each (k, ctx.bits) any arc has asked for; only added to, under _CORES_LOCK
_CORES: dict[tuple[int, int], _ArcCore] = {}
_CORES_LOCK = threading.Lock()


def _arc_core(k: int, ctx: PrecisionContext) -> _ArcCore:
    with _CORES_LOCK:
        core = _CORES.get((k, ctx.bits))
        if core is None:
            core = _CORES[k, ctx.bits] = _ArcCore(k, ctx)
        return core


class Arc:
    """The k-th Farey arc of the estimate for p2(n): its terms phi^(m)_k(n).

    An arc is an n-independent core shared by every arc of its (k,
    ctx.bits), built once per process, and the parts that depend on n.  The
    core (_ArcCore) holds the coprime h <= k/2, one CoeffGenerator per h,
    the powers (a/k^3)^(m/2), the arc prefactor and each h's factor
    e^{C_{h,k}}; its generators and powers are extended under a lock, so
    arcs in several threads can share it.  The arc itself adds x =
    sqrt(a/k^3) n, the h-weights (the prefactor times each h's factor and
    the phase e^{-2 pi i n h / k}) and its Almkvist ladder.  Every value is
    a floating integer: a mantissa of exactly ctx.bits bits with its
    exponent.  Every input of a term is carried at ctx.bits: x, the weights
    (with C_{h,k} and the phases) and, behind b[m], each v^(p).  So the
    arc's integer state depends on the precision through ctx.bits alone.  A
    term is one _dot of the weights with the generators' b[m] and two
    integer products, rounded once to the working precision; it is
    recomputed, not stored.

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
        self._core = core = _arc_core(k, ctx)
        with mp.workprec(ctx.bits):
            self.x = core.sqrt_ak3 * n
            cos, sin, _ = _trig_fixed_row(k, ctx.bits)
            e = -ctx.bits  # the rows are integers over 2^-e
            # per parity of m, the mantissas and the exponents of the weights, one per h
            self._weights = (([], []), ([], []))
            for h, scale in zip(core.hs, core.scales):
                j = (-n * h) % k
                re, im = (core.base * mpmath.mpf((row[j], e)) * scale for row in (cos, sin))
                for (mans, exps), v in zip(self._weights, (re, -im)):
                    man, exp = _from_mpf(v._mpf_, ctx.bits)
                    mans.append(man)
                    exps.append(exp)

    def _almkvist_fixed(self, m: int) -> tuple[int, int]:
        """A_m as a floating integer, extending the ladder past its end."""
        if m < 0:
            raise ValueError("the Almkvist ladder requires m >= 0")
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

    def term(self, m: int):
        """phi^(m)_k(n) as a real mpf: (a/k^3)^(m/2) A_m times one dot product
        of the weights with the generators' b[m].  Terms may be requested in
        any order, but increasing m reuses all coefficient work."""
        if m < 0:
            raise ValueError("Arc.term requires m >= 0")
        core = self._core
        if len(core.powers) <= m:
            core.extend_to(m)
        acc, e = _dot(*self._weights[m % 2], [g.b[m] for g in core.gens],
                      [g.b_exp[m] for g in core.gens])
        a, ae = self._almkvist_fixed(m)
        p, pe = core.powers[m]
        sign = -1 if m % 4 > 1 else 1
        return mp.make_mpf(from_man_exp(sign * acc * a * p, e + ae + pe, self.ctx.prec, "n"))


def _saddle_plan(n: int, k: int, ctx: PrecisionContext | None = None):
    """(lam, SaddleData, M*) of (n, k) from one solve of the saddle cubic,
    in ctx's number type (see lambda_param)."""
    scope, one, *_ = number_type(ctx)
    with scope:
        lam = lambda_param(n, k, ctx)
        sd = saddle_data(lam, ctx)
        c2 = derived_constants(ctx).c2
        return lam, sd, (sd.c / k) * n ** (one / 3) - (sd.c * sd.c / (4 * c2 * k)) * sd.f1pp


def mstar_theory(n: int, k: int, ctx: PrecisionContext | None = None):
    """Predicted truncation point M*(n,k) from the saddle-point analysis, in
    ctx's number type (see lambda_param): without ctx, a Python float from
    one float solve of the saddle cubic (saddle_data), which is what
    mstar_numeric reads."""
    if n < 1 or k < 1:
        raise ValueError("mstar_theory requires n, k >= 1")
    return _saddle_plan(n, k, ctx)[2]


def mstar_numeric(arc: Arc, mstar=None) -> PhiBreakdown:
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
    min_gate = int(M*/2) and the cap read M* in floats: mstar, the estimate's
    one float solve for the arc, or else mstar_theory's.  Only their integer
    parts matter, and on a grid of n up to 7100 and k up to 67 they equal a
    30-digit solve's (tests/test_circle.py).
    trunc_error_est is the last kept term's size, or on minimum-found the
    next armed pair's size.  Exact zeros are summed but end nothing, so the
    exit depends on the terms alone, not on the working precision."""
    n, k, ctx = arc.n, arc.k, arc.ctx
    with ctx.workdps():
        floor_v = mpmath.mpf(M_FLOOR)
        theory = mstar_theory(n, k) if mstar is None else mstar
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
                            trunc_error_est=trunc, stop_reason=stop_reason,
                            decimal_digits=ctx.decimal_digits)


def n_cutoff_theory(n: int, kappa2, ctx: PrecisionContext):
    """Major-arc cutoff N(n) = 2.948 n^(1/3) + (2.936 k2 - 1.468) log n + beta3,
    with beta3 = 1.587 + 2.936 k3 and k3 = 0.06; ValueError unless kappa2 is
    finite (an infinite or nan kappa2 has no N(n))."""
    if n < 1:
        raise ValueError("n_cutoff_theory requires n >= 1")
    with ctx.workdps():
        k2 = mpmath.mpf(kappa2)
        if not mp.isfinite(k2):
            raise ValueError(f"kappa2 must be finite, not {kappa2}")
        n13 = mpmath.mpf(n) ** (mpmath.mpf(1) / 3)
        beta3 = mpmath.mpf("1.587") + mpmath.mpf("2.936") * mpmath.mpf("0.06")
        return (mpmath.mpf("2.948") * n13
                + (mpmath.mpf("2.936") * k2 - mpmath.mpf("1.468")) * mp.log(n) + beta3)


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


def _log_phi0_bound(n: int, k: int, lam, sd) -> float:
    """log of the published upper bound for |phi^(0)_k(n)| from the float
    lam(n, k) and its SaddleData: the smaller of the paper's two forms, each
    one sum of logs in floats, so that it holds at any n."""
    cst, der = constants(), derived_constants()
    log_k23 = 2 * math.log(k) - 2 * math.log(n) / 3  # log(k^2 / n^(2/3))
    log1 = (k * math.log(der.c1) + (1 + k / 24) * log_k23 + math.log(2 * cst.a) / 6
            - math.log(6 * cst.pi * k**3) / 2 + der.c2 * n ** (2 / 3) / k * (1 + sd.f1)
            + math.log(1 + sd.f2))
    if k == 1:
        # c1 carries the (k 2^-alpha)^(k/12) estimate (alpha = 3) for
        # e^{C_{h,k}} over 1 <= h < k; the k = 1 arc is the single h = 0
        # term with C_{0,1} = 0, so the 2^{-1/4} factor must be undone.
        log1 += cst.log2 / 4
    log2 = math.log(72 * cst.a / (cst.pi * k**3)) / 2 + k / 24 * _log_d_of_saddle(lam, sd)
    return min(log1, log2)


def p2_estimate(n: int, kappa2=None, digits: int | None = None,
                with_exact: bool = False) -> EstimateReport:
    """Full superasymptotic estimate of p2(n) with an error ledger.

    Each arc k = 1, 2, ... is built once and probed (cutoff_probe).  Arcs are
    included up to the numeric cutoff (the k before the first arc whose
    nonzero probe drops below K_THRESHOLD) by default, or up to [N(n)] when
    kappa2 is given; each included arc is truncated in m per mstar_numeric.
    One float solve of the saddle cubic per arc gives its truncation gate
    and cap and the log of the paper's bound on its m = 0 term
    (_log_phi0_bound), from which arith.arc_precision sets the arc's working
    precision: the estimate's digits for arc 1, fewer by the decimal orders
    its bound lies below arc 1's for the others.
    estimated_error aggregates the per-k truncation estimates plus the probe
    of the first excluded arc whose probe is nonzero, searched over at most
    seven arcs.  A kappa2 whose N(n) reaches MAX_ARCS is rejected.  digits
    sets the working precision (see precision_for); PrecisionError if its
    certified digits (ctx.eps) do not reach the units place of arc 1's m = 0
    term (checked before any arc is summed) or of the estimate, and when an
    included arc ends exhausted, whose trunc_error_est is only its last
    term's size.  mpmath's working precision is one setting per process, so
    estimates in several threads take turns (_ESTIMATE_LOCK).
    """
    if n < 1:
        raise ValueError("p2_estimate requires n >= 1")
    with _ESTIMATE_LOCK:
        return _estimate(n, kappa2, precision_for(n, digits), with_exact)


def _estimate(n: int, kappa2, ctx: PrecisionContext, with_exact: bool) -> EstimateReport:
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
            lam, sd, mstar = _saddle_plan(n, k)
            log_bound = _log_phi0_bound(n, k, lam, sd)
            if k == 1:
                log_lead = log_bound
            arc = Arc(n, k, arc_precision(ctx, log_lead - log_bound))
            probe = cutoff_probe(arc)
            # The sum's roundoff scales with its largest term, arc 1's m = 0.
            if k == 1 and probe * ctx.eps >= mpmath.mpf(1) / 2:
                raise PrecisionError(uncertified)
            # Structural zeros of the m = 0 term are skipped: they say nothing
            # about the arc's size (its higher-m terms do not cancel).
            if n_incl is None and probe != 0 and probe < thr:
                n_incl = max(1, k - 1)
            if n_incl is None or k <= n_incl:
                per_k.append(mstar_numeric(arc, mstar))
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
        exact = p2_exact_table(n)[n] if with_exact else None
        actual_error = estimate - exact if with_exact else None
    return EstimateReport(n=n, N_used=n_incl, per_k=per_k, estimate=estimate,
                          rounded=rounded, estimated_error=est_err,
                          decimal_digits=ctx.decimal_digits, exact=exact,
                          actual_error=actual_error)
