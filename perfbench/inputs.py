"""Workload inputs, made from the seed alone.

Every pass of a run gets its own inputs.  Pass i of a run uses the offset
u_i = frac(u_0 + i * phi), where u_0 comes from the seed and phi is the
golden-ratio conjugate; a run's passes thus spread evenly over each band
whatever their number, so the per-pass medians move little from seed to seed.

roundtrip_batch draws no n listed in known_wrong.json, the n at which
p2_estimate currently returns a wrong integer (make_known_wrong.py finds them
and the traced runs count how many still do); a run measures speed on inputs
the program gets right, and the defect stays in view as its own metric.
"""

from __future__ import annotations

import json
import pathlib
import random

WORKLOADS = ("roundtrip_batch", "exact_table")

ROUNDTRIP_BAND = (100, 1000)
ROUNDTRIP_CALLS = 12
TABLE_BAND = (6000, 7000)

_PHI = 0.6180339887498949

KNOWN_WRONG_FILE = pathlib.Path(__file__).with_name("known_wrong.json")


def known_wrong() -> list[int]:
    """The n of ROUNDTRIP_BAND that p2_estimate rounds wrong."""
    return [entry["n"] for entry in json.loads(KNOWN_WRONG_FILE.read_text())]


def _offset(workload: str, seed: int, pass_index: int) -> float:
    u0 = random.Random(f"{workload}/{seed}").random()
    return (u0 + pass_index * _PHI) % 1.0


def make_inputs(workload: str, seed: int, pass_index: int) -> dict:
    """The arguments of one pass, as a JSON-ready dict."""
    u = _offset(workload, seed, pass_index)
    if workload == "roundtrip_batch":
        # one n per stratum; neighbouring strata take mirrored offsets, so a
        # pass costs about the same whichever offset it gets
        lo, hi = ROUNDTRIP_BAND
        width = (hi - lo) / ROUNDTRIP_CALLS
        wrong = set(known_wrong())
        ns = [min(hi, lo + int((s + (u if s % 2 == 0 else 1 - u)) * width))
              for s in range(ROUNDTRIP_CALLS)]
        return {"ns": [_nearest_right(n, wrong, lo, hi) for n in ns]}
    if workload == "exact_table":
        lo, hi = TABLE_BAND
        return {"N": lo + round(u * (hi - lo))}
    raise ValueError(f"unknown workload {workload!r}")


def _nearest_right(n: int, wrong: set[int], lo: int, hi: int) -> int:
    """n itself, or the closest n of [lo, hi] not in wrong (the lower on a tie)."""
    for step in range(hi - lo + 1):
        for m in (n - step, n + step):
            if lo <= m <= hi and m not in wrong:
                return m
    raise ValueError(f"every n of [{lo}, {hi}] is known to round wrong")
