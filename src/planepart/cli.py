"""Command-line surface: exact counts, asymptotic estimates with error
ledgers, per-term scans, Dedekind summaries, and b_min scan data.

Every command emits a ReportDocument: {schema_version, command, inputs,
outputs, timings} with all big numbers serialized as decimal strings.  Output
is deterministic for fixed inputs and --digits (timings aside).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import mpmath
from mpmath import mp

from . import arith, circle, dedekind, exact

SCHEMA_VERSION = "1"


def _nstr(x, dps: int) -> str:
    with mp.workdps(dps):
        if isinstance(x, mpmath.mpc):
            return f"{_nstr(x.real, dps)}{'+' if x.imag >= 0 else '-'}{_nstr(abs(x.imag), dps)}j"
        return mp.nstr(mpmath.mpf(x), dps, strip_zeros=True)


def _breakdown_dict(b: circle.PhiBreakdown, dps: int) -> dict:
    return {
        "k": b.k,
        "m_star_used": b.m_star_used,
        "stop_reason": b.stop_reason,
        "phi_value": _nstr(b.phi_value, dps),
        "trunc_error_est": _nstr(b.trunc_error_est, dps),
        "terms_computed": len(b.terms),
    }


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_constants(args) -> tuple[dict, None]:
    dps = args.digits or 50
    ctx = arith.PrecisionContext(decimal_digits=max(dps, 30))
    cst = arith.constants(ctx)
    der = arith.derived_constants(ctx)
    with ctx.workdps():
        c0 = circle.c_of_lambda(0, ctx)
        lam_c = circle.lambda_c(ctx)
    out = {
        "pi": _nstr(cst.pi, dps),
        "a": _nstr(cst.a, dps),
        "zeta_prime_m1": _nstr(cst.zeta_prime_m1, dps),
        "log2": _nstr(cst.log2, dps),
        "c1": _nstr(der.c1, dps),
        "c2": _nstr(der.c2, dps),
        "c_at_0": _nstr(c0, dps),
        "lambda_c": _nstr(lam_c, dps),
    }
    return out, None


def cmd_exact(args) -> tuple[dict, list | None]:
    if args.n < 0:
        raise ValueError("n must be >= 0")
    table = exact.p2_exact_table(args.n)
    out = {"n": args.n, "p2": str(table[args.n]), "digits": len(str(table[args.n]))}
    rows = None
    if args.table:
        rows = (["n", "p2"], [[str(i), str(v)] for i, v in enumerate(table.values)])
    return out, rows


def cmd_estimate(args) -> tuple[dict, None]:
    report = circle.p2_estimate(
        args.n, kappa2=args.kappa2, k_threshold=args.k_threshold,
        m_floor=args.m_floor, digits=args.digits, with_exact=args.with_exact)
    out = {
        "n": report.n,
        "N_used": report.N_used,
        "estimate": _nstr(report.estimate, report.decimal_digits),
        "rounded": str(report.rounded),
        "estimated_error": _nstr(report.estimated_error, 10),
        "per_k": [_breakdown_dict(b, 40) for b in report.per_k],
    }
    if report.exact is not None:
        out["exact"] = str(report.exact)
        out["actual_error"] = _nstr(report.actual_error, 10)
    return out, None


def cmd_phi(args) -> tuple[dict, list | None]:
    if args.n < 1 or args.k < 1:
        raise ValueError("n and k must be >= 1")
    ctx = (arith.PrecisionContext(decimal_digits=args.digits)
           if args.digits else arith.precision_for(args.n))
    breakdown = circle.mstar_numeric(circle.Arc(args.n, args.k, ctx),
                                     floor=args.m_floor)
    out = _breakdown_dict(breakdown, ctx.decimal_digits)
    out["n"] = args.n
    rows = None
    if args.per_m:
        rows = (["k", "m", "value", "abs_value"],
                [[str(t.k), str(t.m), _nstr(t.value, 40), _nstr(t.abs_value, 40)]
                 for t in breakdown.terms])
    return out, rows


def _parse_k_list(spec: str) -> list[int]:
    def is_prime(x: int) -> bool:
        if x < 2:
            return False
        for p in range(2, int(math.isqrt(x)) + 1):
            if x % p == 0:
                return False
        return True

    ks: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        primes_only = token.startswith("p:")
        if primes_only:
            token = token[2:]
        if "-" in token:
            lo, hi = token.split("-")
            rng = range(int(lo), int(hi) + 1)
        else:
            rng = [int(token)]
        ks.extend(k for k in rng if not primes_only or is_prime(k))
    ks = sorted(set(ks))
    if not ks or ks[0] < 2:
        raise ValueError("k list must contain integers >= 2")
    return ks


def cmd_scan_bmin(args) -> tuple[dict, list]:
    ks = _parse_k_list(args.k_list)
    dps = args.digits or 50
    ctx = arith.PrecisionContext(decimal_digits=max(dps, 30))
    rows = []
    for k in ks:
        h, val = dedekind.b_min(k, ctx)
        rows.append([str(k), str(h), _nstr(val, 30)])
    out = {"count": len(rows),
           "min_overall": _nstr(min(mpmath.mpf(r[2]) for r in rows), 30)}
    return out, (["k", "argmin_h", "b_min"], rows)


def cmd_dedekind(args) -> tuple[dict, None]:
    if math.gcd(args.h, args.k) != 1:
        raise ValueError("h and k must be coprime")
    dps = args.digits or 50
    ctx = arith.PrecisionContext(decimal_digits=max(dps, 30))
    h, k = args.h, args.k
    reduced = 1 <= h < k
    out = {
        "h": h,
        "k": k,
        "C_hk": _nstr(dedekind.c_hk(h, k, ctx), dps),
        "b_hk": _nstr(dedekind.b_hk(h, k, ctx), dps) if reduced else None,
        "v1": _nstr(dedekind.v1_hk(h, k, ctx), dps),
        "reciprocity_residual": (_nstr(dedekind.reciprocity_residual(h, k, ctx), dps)
                                 if reduced else None),
        "bound_flags": dict(dedekind.bound_suite(h, k, ctx)),
    }
    return out, None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planepart",
        description="plane-partition counts: exact and superasymptotic")
    parser.add_argument("--digits", type=_positive_int, default=None,
                        help="working precision in decimal digits (default: auto)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the report document to PATH")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write tabular payload (if any) to PATH")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="fundamental and derived constants")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("exact", help="exact p2(n)")
    p.add_argument("n", type=int)
    p.add_argument("--table", action="store_true",
                   help="tabulate p2(0..n) (use with --csv)")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("estimate", help="superasymptotic estimate of p2(n)")
    p.add_argument("n", type=int)
    p.add_argument("--kappa2", default=None,
                   help="use the theoretical cutoff N(n) with this kappa2")
    p.add_argument("--k-threshold", default=circle.DEFAULT_K_THRESHOLD)
    p.add_argument("--m-floor", default=circle.DEFAULT_M_FLOOR)
    p.add_argument("--with-exact", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("phi", help="phi_k(n) with truncation metadata")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--m-floor", default=circle.DEFAULT_M_FLOOR)
    p.add_argument("--per-m", action="store_true",
                   help="emit the per-m term records (use with --csv)")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("scan-bmin", help="b_min(k) scan data")
    p.add_argument("--k-list", required=True,
                   help='e.g. "2-50", "97,499,997", or "p:2-200" (primes only)')
    p.set_defaults(func=cmd_scan_bmin)

    p = sub.add_parser("dedekind", help="Dedekind-sum summary for (h, k)")
    p.add_argument("h", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_dedekind)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        outputs, rows = args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except arith.PrecisionError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": {key: value for key, value in sorted(vars(args).items())
                   if key not in ("func", "json", "csv", "quiet")
                   and not callable(value)},
        "outputs": outputs,
        "timings": {"total_s": round(time.monotonic() - start, 6)},
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if rows is not None and args.csv:
        _write_csv(args.csv, rows[0], rows[1])
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    if not args.quiet:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
