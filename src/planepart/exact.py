"""Exact big-integer values of p2(n).

Values come from the sigma2 recurrence n*p2(n) = sum_{j<=n} sigma2(j)*p2(n-j)
(logarithmic derivative of the MacMahon product).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .arith import sigma2_table


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
    """Exact p2(0..N) via the sigma2 recurrence; O(N^2) big-integer work."""
    if N < 0:
        raise ValueError("p2_exact_table requires N >= 0")
    sig = sigma2_table(N)
    values = [1]
    for n in range(1, N + 1):
        acc = sum(map(mul, sig[1 : n + 1], values[n - 1 :: -1]))
        q, r = divmod(acc, n)
        if r:
            raise ArithmeticError("sigma2 recurrence produced a non-integer")
        values.append(q)
    return PlanePartitionTable(values=tuple(values))

