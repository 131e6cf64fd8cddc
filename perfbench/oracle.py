"""Independent oracle for p2(n) modulo a prime.

Expands the MacMahon product prod_{k>=1} (1 - q^k)^(-k) directly, one factor
at a time, with the binomial series (1 - q^k)^(-k) = sum_j C(k+j-1, j) q^(kj).
This shares no code and no formula with the library's sigma2 recurrence.
"""

from __future__ import annotations

import numpy as np

PRIME = 2_147_483_647  # 2^31 - 1, so a product of two residues fits in int64


def p2_mod(N: int, p: int = PRIME) -> list[int]:
    """p2(0..N) mod p."""
    coeffs = np.zeros(N + 1, dtype=np.int64)
    coeffs[0] = 1
    for k in range(1, N + 1):
        old = coeffs.copy()
        binom = 1
        for j in range(1, N // k + 1):
            binom = binom * (k + j - 1) % p * pow(j, -1, p) % p
            shift = k * j
            coeffs[shift:] = (coeffs[shift:] + old[: N + 1 - shift] * binom % p) % p
    return coeffs.tolist()
