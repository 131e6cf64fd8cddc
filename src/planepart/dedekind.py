"""Generalized Dedekind sums and asymptotic-series coefficients.

Provides C_hk, b_hk, the residue coefficients v^(p)_hk, the exponential-series
coefficients b^(m)_hk, published bound checks, and the reciprocity residual;
the published b_{1,k} estimate is a test oracle (tests/oracles.py).

Every order v^(p), p >= 1, at every k is the O(k^2) double Bernoulli sum
bucketed by d*d' mod k: integer rows L k^p B_p(d/k) (arith.bernoulli_int_row),
integer products, one division per bucket.  B_p(1 - x) = (-1)^p B_p(x) halves
the work twice.  The d and k - d terms fall into buckets j and k - j with the
sign (-1)^p, so the double sum runs over d <= k/2.  And U_{k-j} = (-1)^p U_j,
so v^(p) is a sum of U_j cos(2 pi j h / k) over 0 <= j <= k/2 (real) for
even p and of U_j sin(2 pi j h / k) (imaginary) for odd p: one integer dot
product with a fixed-point cos or sin row.  One row per (k, precision),
_trig_fixed_row, at the context's PrecisionContext.bits, gives circle.Arc
its phases, v^(p) its cos and sin, and C_{h,k} and b_{h,k} their log-sines,
log|2 sin(pi j / k)| taken from the cos row as fixed-point integers too, so
C_{h,k} and b_{h,k} are each one integer dot product with integer weights.
The contexts of one bits share the row, and each caller reads it at the
row's scale 2^-bits and rounds its result once to bits.  At k = 1 and 2
only U_0 and U_{k/2} remain, and the roots are +-1; vp_rational gives those
arcs' v^(p) as exact rationals for reference.
The b^(m) recurrence therefore runs on real numbers, and b_{k-h} follows
from b_h, so an arc needs one generator per pair h, k - h (circle.Arc).
CoeffGenerator holds each real as a floating integer: a mantissa of exactly
ctx.bits bits and its own exponent, so an order is one C-level integer dot
product (_dot) whatever the size of b^(m) (b^(900) of arc 1 is about
2^2765).  v1_hk, which the `dedekind`
CLI command prints, is vp_hk at p = 1; the cot form of v^(p) is a test
oracle (tests/oracles.py).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, rshift

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, mpf_log, to_fixed

from .arith import PrecisionContext, bernoulli_int_row, constants

# published correction constant in the b_{1,k} estimate
B1K_GAMMA = "0.024529"


ZERO_EXP = -(1 << 62)  # a zero mantissa's exponent: below all others, so no zero leads a _dot


@lru_cache(maxsize=None)
def _trig_fixed_row(k: int, bits: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(cos, sin, logsin), all integers over 2^bits: cos and sin of
    2 pi j / k, j = 0..k-1, and log|2 sin(pi j / k)|, j = 1..k-1.

    The callers pass their context's bits (PrecisionContext.bits), so the
    contexts of one bits share a row, and each caller reads it at the row's
    scale, 2^-bits.

    For j <= k/2, cos and sin come from one mp.expjpi(2/k), w, and the
    rotation z_(j+1) = z_j w in integers carrying 16 + k.bit_length() bits
    more, rounded to nearest; past k/2 they are mirrored in integers
    (cos[k - j] = cos[j], sin[k - j] = -sin[j]).  In units of the last
    extra bit, a rotation step adds under 4 (its two floors and w's own
    rounding), and |w| = 1 carries the earlier error over unchanged, so at
    j <= k/2 the error is under 2k units, under 2^-15 units once rounded:
    each entry is within 1 unit of 2^-bits.  The points the sum of an arc
    relies on being exact are set exactly: cos = 0 at j = k/4 and
    e^(i pi) = -1 at j = k/2.  For j <= k/2 the log-sine is half of one
    log of the exact number ((1 << bits) - cos[j]) 2^(1 - bits)
    = 2 - 2 cos(2 pi j / k), floored onto the row's scale and mirrored past
    k/2.  The log's absolute error is the relative error of 2 - 2 cos: a few
    units of 2^-bits over 2 - 2 cos >= 4 sin^2(pi / k) >= 16 / k^2, which
    stays below 2^(32 - bits) for k up to 2^16.  A context's bits is 32
    guard bits (arith.GUARD_BITS) above a multiple of 64 at least 8 bits
    above its precision prec, so that is below 2^-(prec + 8): the guard
    absorbs the cancellation."""
    extra = 16 + k.bit_length()
    wp = bits + extra
    with mp.workprec(wp):
        w = mp.expjpi(mpmath.mpf(2) / k)
    wc, ws = to_fixed(w.real._mpf_, wp), to_fixed(w.imag._mpf_, wp)
    half = 1 << (extra - 1)
    c, s = 1 << wp, 0
    cos, sin = [], []
    for _ in range(k // 2 + 1):
        cos.append((c + half) >> extra)
        sin.append((s + half) >> extra)
        c, s = (c * wc - s * ws) >> wp, (c * ws + s * wc) >> wp
    if k % 2 == 0:
        cos[k // 2], sin[k // 2] = -1 << bits, 0
    if k % 4 == 0:
        cos[k // 4], sin[k // 4] = 0, 1 << bits
    # log(2 - 2 cos) at bits + 8 bits, floored onto 2^-(bits - 1): its half on 2^-bits
    logsin = [to_fixed(mpf_log(from_man_exp((1 << bits) - c, 1 - bits), bits + 8), bits - 1)
              for c in cos[1:]]
    mirror = range((k - 1) // 2, 0, -1)
    return (tuple(cos + [cos[j] for j in mirror]), tuple(sin + [-sin[j] for j in mirror]),
            tuple(logsin + logsin[:(k - 1) // 2][::-1]))


def _row_value(dot: int, den: int, ctx: PrecisionContext) -> tuple:
    """dot / den over the scale 2^ctx.bits of ctx's rows (den >= 1), as a raw
    mpf correctly rounded to ctx.bits, so C_{h,k}, b_{h,k} and v^(p) reach an
    arc with all the bits of its kernels.

    One divmod gives the quotient with at least ctx.bits + 1 bits, and a
    sticky bit below it records a nonzero remainder.  In units of that bit,
    the exact quotient and the mantissa are equal or lie strictly between
    the same two consecutive even integers, and every rounding boundary of
    ctx.bits bits is an even integer, so both round to the same mpf: the
    one mpf_div gives (tests/oracles.py keeps that form)."""
    bits, num = ctx.bits, abs(dot)
    shift = max(0, bits + 1 + den.bit_length() - num.bit_length())
    q, r = divmod(num << shift, den)
    man = 2 * q + (r > 0)
    return from_man_exp(-man if dot < 0 else man, -bits - shift - 1, bits, "n")


def _logsin_sum(k: int, terms, den: int, ctx: PrecisionContext):
    """(1/den) sum of w log|2 sin(pi i / k)| over the integer pairs (w, i),
    0 < i < k: one integer dot product with the fixed-point log-sine row at
    ctx.bits, rounded once to ctx.bits."""
    logsin = _trig_fixed_row(k, ctx.bits)[2]
    return mp.make_mpf(_row_value(sum(w * logsin[i - 1] for w, i in terms), den, ctx))


def _check_coprime(h: int, k: int) -> None:
    if k < 1 or math.gcd(h, k) != 1:
        raise ValueError(f"(h, k) = ({h}, {k}) must be coprime with k >= 1")


def c_hk(h: int, k: int, ctx: PrecisionContext):
    """C_{h,k} = (k/2) sum_j B_2(j/k) log|2 sin(pi j h / k)|; 0 for k = 1.
    One integer dot product (_logsin_sum) with the integer weights
    6 j^2 - 6 j k + k^2 = 6 k^2 B_2(j/k), over 12 k."""
    _check_coprime(h, k)
    return _logsin_sum(k, ((6 * j * j - 6 * j * k + k * k, j * h % k) for j in range(1, k)),
                       12 * k, ctx)


def b_hk(h: int, k: int, ctx: PrecisionContext):
    """b_{h,k} = sum_j {hj/k}(1 - {hj/k}) log|2 sin(pi j / k)|; 0 for k = 1.
    One integer dot product (_logsin_sum) with the integer weights
    (hj mod k)(k - hj mod k) = k^2 {hj/k}(1 - {hj/k}), over k^2."""
    _check_coprime(h, k)
    return _logsin_sum(k, ((h * j % k * (k - h * j % k), j) for j in range(1, k)), k * k, ctx)


def v1_hk(h: int, k: int, ctx: PrecisionContext):
    """v^(1)_{h,k}, purely imaginary (vp_hk at p = 1)."""
    return vp_hk(1, h, k, ctx)


@lru_cache(maxsize=None)
def _vp_buckets(p: int, k: int) -> tuple[int, int, tuple[int, ...]]:
    """(P, D, (N_0, ..., N_{k//2})) with v^(p)_{h,k} = (P / D) sum_j N_j
    cos(2 pi j h / k) for even p and i (P / D) sum_j N_j sin(2 pi j h / k)
    for odd p, P = (-1)^p k^(2p) and D = p! p (p + 2) L: N_j / L is U_j, the
    sum over d, d' in 1..k with d d' = j mod k of B_{p+2}(d'/k) B_p(d/k),
    doubled for 0 < j < k/2, where bucket k - j joins it.

    Sums integer rows (bernoulli_int_row) over their one common denominator L.
    The d and k - d terms land in buckets j and k - j with the sign (-1)^p,
    so only d <= k/2 and d = k are summed, and U_{k-j} = (-1)^p U_j gives
    the buckets past k/2."""
    den_p, row_p = bernoulli_int_row(p, k)
    den_p2, row_p2 = bernoulli_int_row(p + 2, k)
    sign = -1 if p % 2 else 1
    mirrored = [0] * k  # from 0 < d < k/2, with k - d folded in below
    own = [0] * k       # from d = k/2 and d = k, their own mirror images
    for d in range(1, k + 1):
        if k < 2 * d < 2 * k:
            continue
        bp = row_p[d - 1]
        if bp == 0:
            continue
        acc = mirrored if 2 * d < k else own
        for dq, b2 in enumerate(row_p2, 1):
            if b2:
                acc[(d * dq) % k] += b2 * bp
    return (sign * k ** (2 * p), math.factorial(p) * p * (p + 2) * den_p * den_p2,
            tuple((1 if 2 * j % k == 0 else 2) * (mirrored[j] + sign * mirrored[-j] + own[j])
                  for j in range(k // 2 + 1)))


def vp_rational(p: int, h: int, k: int) -> Fraction:
    """Exact v^(p)_{h,k} for k in {1, 2}, where the roots of unity are +-1
    (a reference for vp_hk; the pipeline does not call it)."""
    if p < 1:
        raise ValueError("vp_rational requires p >= 1")
    _check_coprime(h, k)
    if k not in (1, 2):
        raise ValueError("vp_rational is only exact for k in {1, 2}")
    num, den, buckets = _vp_buckets(p, k)
    s = buckets[0] if k == 1 else buckets[0] - buckets[1]  # h = 1: (-1)^j
    return Fraction(num * s, den)


def vp_hk(p: int, h: int, k: int, ctx: PrecisionContext):
    """v^(p)_{h,k} (p >= 1) by the double Bernoulli sum over roots of unity.

    U_{k-j} = (-1)^p U_j pairs the buckets: the sum is U_0 + 2 sum_{0<j<k/2}
    U_j cos(2 pi j h / k) (+ U_{k/2} cos(pi h)) for even p, a real number,
    and 2i sum_{0<j<k/2} U_j sin(2 pi j h / k) for odd p, an imaginary one
    (U_0 = U_{k/2} = 0).  The integer numerators of the (doubled) U_j meet
    the cos or sin row, in integers over 2^ctx.bits, in one integer
    dot product, scaled once by P / D from _vp_buckets, which caches the
    prefactor with the buckets."""
    if p < 1:
        raise ValueError("vp_hk requires p >= 1")
    _check_coprime(h, k)
    num, den, buckets = _vp_buckets(p, k)
    row = _trig_fixed_row(k, ctx.bits)[p % 2]
    # bucket j meets row[j h mod k]
    dot = sum(map(mul, buckets, map(row.__getitem__,
                                    map(k.__rmod__, map(h.__mul__, range(len(buckets)))))))
    s = _row_value(num * dot, den, ctx)
    return mp.make_mpc((fzero, s) if p % 2 else (s, fzero))


def _normalize(man: int, exp: int, bits: int) -> tuple[int, int]:
    """man 2^exp as (mantissa of exactly `bits` bits, floored, and its
    exponent); zero is (0, ZERO_EXP)."""
    if not man:
        return 0, ZERO_EXP
    shift = abs(man).bit_length() - bits
    return (man >> shift if shift >= 0 else man << -shift), exp + shift


def _from_mpf(x: tuple, bits: int, factor: int = 1) -> tuple[int, int]:
    """The raw mpf x (an _mpf_ tuple) times the integer factor as a
    normalized mantissa of `bits` bits and its exponent: one conversion,
    exact while x's mantissa times factor has at most `bits` bits and
    floored once past that (a v[j] of ctx.bits bits times j, in
    CoeffGenerator)."""
    sign, man, exp, _ = x
    return _normalize(factor * (-man if sign else man), exp, bits)


def _dot(xs, xe, ys, ye) -> tuple[int, int]:
    """(S, top) with S 2^top = sum_j xs[j] 2^xe[j] ys[j] 2^ye[j], from
    normalized mantissas: every xs of one bit length bx, every ys of one
    bit length by (zeros carry ZERO_EXP).

    Each ys[j] is floored onto the exponent top = max_j (xe[j] + ye[j])
    before its product, so every product lands on 2^top, and one far below
    the leading one costs a short multiplication.  The floor costs a product
    under |xs[j]| 2^top <= 2^(bx + top), and the product with exponent sum
    top is at least 2^(bx + by - 2 + top), so the sum of n products is
    within n 2^(2 - by) of its largest one, whatever the spread of sizes."""
    pe = list(map(add, xe, ye))
    top = max(pe)
    return sum(map(mul, xs, map(rshift, ys, map(top.__sub__, pe)))), top


class CoeffGenerator:
    """Incrementally extends v^(m) and b^(m) for one (h, k), rotated to reals.

    B_p(1 - x) = (-1)^p B_p(x) makes v^(p) real for even p and purely
    imaginary for odd p.  So v[m] = i^-m v^(m) and b[m] = i^-m b^(m) are real:
    exp(sum_p v^(p) z^p) = exp(sum_p v[p] (iz)^p).  The recurrence
    m b[m] = sum_j j v[j] b[m - j] runs on floating integers: b[m] is
    self.b[m] 2^self.b_exp[m] and j v[j] is jv[j - 1] 2^jv_exp[j - 1], every
    nonzero mantissa exactly ctx.bits bits long.  j v[j] is the v[j] that
    vp_hk rounds to ctx.bits, times +-j, floored once to ctx.bits.  An order
    is one _dot, one floor division by m and one normalization: the dot's
    error is a few units of 2^-bits of its largest product and the
    division's one more, so each b[m] carries the relative accuracy
    (2^-bits) of the v[j] of its largest product, as an mpf dot product at
    ctx.bits would, at a fraction of the cost.  For
    k <= 2 every odd order is 0 (v[j] is real): those orders and their
    j v[j], which nothing reads, are stored as zeros without computing v[j],
    and the dot products run over the even orders only.  The same
    symmetry gives b_{k-h}[m] = (-1)^m b_h[m], which circle.Arc uses to pair
    h with k - h.
    """

    def __init__(self, h: int, k: int, ctx: PrecisionContext):
        _check_coprime(h, k)
        self.h, self.k, self.ctx = h, k, ctx
        self.jv: list[int] = []
        self.jv_exp: list[int] = []
        self.b: list[int] = [1 << (ctx.bits - 1)]
        self.b_exp: list[int] = [1 - ctx.bits]

    def extend_to(self, M: int) -> None:
        jv, jv_exp, b, b_exp = self.jv, self.jv_exp, self.b, self.b_exp
        bits = self.ctx.bits
        step = 2 if self.k <= 2 else 1
        while len(b) <= M:
            m = len(b)
            if m % step:
                for row, zero in ((jv, 0), (jv_exp, ZERO_EXP), (b, 0), (b_exp, ZERO_EXP)):
                    row.append(zero)
                continue
            v = vp_hk(m, self.h, self.k, self.ctx)._mpc_  # (real, imaginary) raw mpfs
            j_man, j_exp = _from_mpf(v[m % 2], bits, (m, m, -m, -m)[m % 4])
            jv.append(j_man)
            jv_exp.append(j_exp)
            acc, top = _dot(jv[step - 1::step], jv_exp[step - 1::step],
                            b[m - step::-step], b_exp[m - step::-step])
            b_man, b_e = _normalize(acc // m, top, bits)
            b.append(b_man)
            b_exp.append(b_e)


def reciprocity_residual(h: int, k: int, ctx: PrecisionContext):
    """Residual of the b_{h,k} reciprocity estimate; O(x^2) for small x = h/k."""
    _check_coprime(h, k)
    if not 1 <= h < k:
        raise ValueError("reciprocity_residual requires 1 <= h < k")
    cst = constants(ctx)
    with ctx.workdps():
        x = mpmath.mpf(h) / k
        y = 1 - x
        a = cst.a
        pi2 = cst.pi**2
        ell1 = (a / (2 * pi2 * x) + a / (2 * pi2 * y)
                - x * mp.log(x) / 6 - y * mp.log(y) / 6) / 2
        gamma = mpmath.mpf(B1K_GAMMA)
        ell2 = a / (4 * pi2) - (mpmath.mpf(1) / 12 + 3 * a / (4 * pi2) - gamma) * x * y
        main = b_hk(h, k, ctx)
        rec = (x / 2) * b_hk(k % h, h, ctx) + (y / 2) * b_hk(k % (k - h), k - h, ctx)
        return main - rec - ell1 - ell2


def bound_suite(h: int, k: int, ctx: PrecisionContext) -> list[tuple[str, object]]:
    """Named verdicts for the published C_{h,k} and v^(p) bounds (p = 2, 3).

    Verdicts are True/False; None marks a bound skipped outside its validity
    range (the C sandwich needs k > 34, the two-sided bound needs k >= 2).
    """
    _check_coprime(h, k)
    cst = constants(ctx)
    verdicts: list[tuple[str, object]] = []
    with ctx.workdps():
        tol = mpmath.mpf(10) ** (-(ctx.decimal_digits // 2))
        chk = c_hk(h, k, ctx)
        if k > 34:
            c1k = c_hk(1, k, ctx)
            lower = -cst.a * k * k / (4 * cst.pi**2)
            upper = k * mp.log(k) / 12 - k * cst.log2 / 4
            ok = (lower < c1k) and (c1k <= chk + tol) and (chk < upper)
            verdicts.append(("chk_sandwich_k_gt_34", bool(ok)))
        else:
            verdicts.append(("chk_sandwich_k_gt_34", None))
        v1 = v1_hk(h, k, ctx)
        bound1 = 2 * mpmath.mpf(k) ** 3 * cst.a / (2 * cst.pi) ** 3
        verdicts.append(("v1_bound", bool(abs(v1) <= bound1 + tol)))
        for p in (2, 3):
            vp = vp_hk(p, h, k, ctx)
            boundp = (4 * mpmath.mpf(k) ** (2 * p + 1) * mp.factorial(p + 1)
                      * mp.zeta(p) * mp.zeta(p + 2) / (p * (2 * cst.pi) ** (2 * p + 2)))
            verdicts.append((f"vp_bound_p{p}", bool(abs(vp) <= boundp + tol)))
        if k >= 2:
            lo = (1 - k * k) * cst.log2 / 12 + k * mp.log(k) / 12
            hi = (k - 1) * (k - 2) * cst.log2 / 24 - k * mp.log(k) / 24
            ok = (lo - tol <= chk) and (chk <= hi + tol)
            verdicts.append(("chk_two_sided", bool(ok)))
        else:
            verdicts.append(("chk_two_sided", None))
    return verdicts


def b_min(k: int, ctx: PrecisionContext) -> tuple[int, object]:
    """(argmin h, min over coprime h of b_{h,k}); uses b_{h,k} = b_{k-h,k}."""
    if k < 2:
        raise ValueError("b_min requires k >= 2")
    best_h, best = None, None
    for h in range(1, k // 2 + 1):
        if math.gcd(h, k) != 1:
            continue
        val = b_hk(h, k, ctx)
        if best is None or val < best:
            best_h, best = h, val
    return best_h, best

