"""Exact big-integer values of p2(n).

Values come from the sigma2 recurrence n*p2(n) = sum_{j<=n} sigma2(j)*p2(n-j)
(logarithmic derivative of the MacMahon product).  A process computes each
p2(n) once: every table is a prefix of one list that grows to the largest N
asked for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import mul

from .arith import sigma2_table

# p2(0), p2(1), ... as far as any call has asked; only appended to, under _LOCK
_VALUES = [1]
_LOCK = threading.Lock()


@dataclass(frozen=True)
class PlanePartitionTable:
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values or self.values[0] != 1:
            raise ValueError("table must start with p2(0) = 1")

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise ValueError("PlanePartitionTable index requires n >= 0")
        return self.values[n]


def p2_exact_table(N: int) -> PlanePartitionTable:
    """Exact p2(0..N) via the sigma2 recurrence; O(N^2) big-integer work,
    done once per process: the recurrence runs only past the values earlier
    calls computed, and a smaller N reads a prefix of them."""
    if N < 0:
        raise ValueError("p2_exact_table requires N >= 0")
    with _LOCK:
        values = _VALUES
        if len(values) <= N:
            sig = sigma2_table(N)
            for n in range(len(values), N + 1):
                acc = sum(map(mul, sig[1 : n + 1], values[n - 1 :: -1]))
                q, r = divmod(acc, n)
                if r:
                    raise ArithmeticError("sigma2 recurrence produced a non-integer")
                values.append(q)
        return PlanePartitionTable(values=tuple(values[: N + 1]))
