"""High-precision reference for the q-Racah polynomial table.

The table entry R[M, N] is the terminating 4phi3 series that
``qracah.transition.racah`` sums in binary64.  Its term k factors into a part
that depends on M only, a part that depends on N only, and a common part, so
the whole table costs O(D^2) multiprecision products plus the final sums.

The binary64 inputs are taken as exact.  Past two_s ~ 16 the series cancels
by far more than 50 digits, so the working precision starts at 50 digits plus
a few per unit of two_s and is doubled until two evaluations agree entrywise
to ``AGREE_DIGITS`` digits.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

START_DPS = 50
DPS_PER_TWO_S = 4
MAX_DPS = 1600
AGREE_DIGITS = 25


def _table(p, dps: int) -> list[list]:
    with mp.workdps(dps):
        q = mp.mpc(p.base.q)
        q2 = q * q
        b, c, bs, cs, z = (mp.mpc(x) for x in (p.b, p.c, p.b_star, p.c_star, p.zeta))
        n = p.two_s
        D = n + 1
        z2 = z * z
        denom = (-(b / cs) * q ** (n + 1) * z2, -(bs / c) * q ** (n + 1) / z2, q ** (-2 * n))
        qk = [q2**k for k in range(D + 1)]

        common = [mp.mpc(1)]
        for k in range(D - 1):
            d = 1 - qk[k + 1]
            for x in denom:
                d *= 1 - x * qk[k]
            common.append(common[-1] * q2 / d)

        def side(x1, x2):
            out = [mp.mpc(1)]
            for k in range(D - 1):
                out.append(out[-1] * (1 - x1 * qk[k]) * (1 - x2 * qk[k]))
            return out

        row = [side(q ** (-2 * M), (b / c) * q ** (2 * M)) for M in range(D)]
        col = [side(q ** (-2 * N), (bs / cs) * q ** (2 * N)) for N in range(D)]
        row = [[r[k] * common[k] for k in range(D)] for r in row]
        table = []
        for M in range(D):
            line = []
            for N in range(D):
                s = mp.mpc(0)
                for k in range(min(M, N) + 1):
                    s += row[M][k] * col[N][k]
                line.append(s)
            table.append(line)
        return table


def _agree(a: list[list], b: list[list], digits: int) -> bool:
    with mp.workdps(2 * digits):
        tol = mp.mpf(10) ** (-digits)
        return all(
            abs(x - y) <= tol * abs(y)
            for ra, rb in zip(a, b)
            for x, y in zip(ra, rb)
        )


def racah_reference(p) -> np.ndarray:
    """R[M, N] for 0 <= M, N <= two_s, rounded to binary64."""
    dps = START_DPS + DPS_PER_TWO_S * p.two_s
    low = _table(p, dps)
    while dps < MAX_DPS:
        high = _table(p, 2 * dps)
        if _agree(low, high, AGREE_DIGITS):
            return np.array([[complex(x) for x in line] for line in high])
        low, dps = high, 2 * dps
    raise RuntimeError(f"racah_reference: no agreement up to {MAX_DPS} digits")


def entry_digits(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Correct significant digits of each entry, clipped to [-99, 17].

    Non-finite entries count as -99 digits.
    """
    with np.errstate(all="ignore"):
        rel = np.abs(values - ref) / np.abs(ref)
    rel = np.where(np.isfinite(rel), rel, 1e99)
    return np.clip(-np.log10(np.maximum(rel, 1e-17)), -99.0, 17.0)
