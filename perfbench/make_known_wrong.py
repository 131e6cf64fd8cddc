"""Regenerate known_wrong.json: the n at which p2_estimate(n) rounds wrong.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_known_wrong.py

It calls p2_estimate(n) for every n of ROUNDTRIP_BAND (all 901 n of
[100, 1000], about 20 minutes on a 2-core machine), compares `rounded` with
p2_exact_table and records each n where they differ, with the report's
N_used, actual error and estimated_error.

roundtrip_batch draws none of these n (see inputs.py), and its traced runs
count how many of them still round wrong (the `known_wrong` metric).
"""

from __future__ import annotations

import json

from mpmath import mp

from inputs import KNOWN_WRONG_FILE, ROUNDTRIP_BAND
from planepart import arith, circle, exact


def main() -> None:
    lo, hi = ROUNDTRIP_BAND
    table = exact.p2_exact_table(hi)
    wrong = []
    for n in range(lo, hi + 1):
        rep = circle.p2_estimate(n)
        if rep.rounded != table[n]:
            with mp.workdps(arith.precision_for(n).decimal_digits):
                error = rep.estimate - table[n]
            wrong.append({"n": n, "N_used": rep.N_used,
                          "actual_error": mp.nstr(error, 6),
                          "estimated_error": mp.nstr(rep.estimated_error, 6)})
            print("wrong", wrong[-1], flush=True)
    KNOWN_WRONG_FILE.write_text(json.dumps(wrong, indent=1) + "\n")
    print(f"{len(wrong)} of {hi - lo + 1} n round wrong")


if __name__ == "__main__":
    main()
