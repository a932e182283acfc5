"""Complex q-arithmetic: q-numbers, q-shifted factorials, terminating 4phi3 sums.

Everything is plain binary64 ``complex``.  Identities involving these
primitives are verified downstream as residuals, never as exact equalities.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QBase", "qnumber", "qpoch", "phi43"]

# Below this magnitude 1/x is no longer a finite binary64 number.
_INVERSION_FLOOR = 1e-300

# Relative tolerance below which a denominator factor counts as vanishing.
_DENOMINATOR_TOL = 1e-13


@dataclass(frozen=True)
class QBase:
    """Deformation parameter q with its cached square.

    A non-finite q, a modulus past binary64's range, q = 0 and q = +-1 are
    rejected outright; proximity of q to other roots of unity depends on the
    spin and is checked by :func:`qracah.model.validate_genericity`.
    """

    q: complex
    q2: complex = field(init=False)

    def __post_init__(self):
        q = complex(self.q)
        if not np.isfinite(q):
            raise ValueError("QBase: q must be finite")
        if math.hypot(q.real, q.imag) > sys.float_info.max:  # abs(q) would overflow
            raise ValueError(f"QBase: q must be at most {sys.float_info.max:.4g} in modulus")
        if abs(q) < _INVERSION_FLOOR:
            raise ValueError("QBase: q must be nonzero")
        if abs(q - 1.0) < 1e-14 or abs(q + 1.0) < 1e-14:
            raise ValueError("QBase: q = +-1 is excluded")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "q2", q * q)


def qnumber(n: int, base: QBase) -> complex:
    """q-integer (q**n - q**-n) / (q - 1/q)."""
    q = base.q
    return (q**n - q**-n) / (q - 1.0 / q)


def qpoch(a: complex, qq: complex, n: int) -> complex:
    """q-shifted factorial (a; qq)_n = prod_{k=0}^{n-1} (1 - a*qq**k)."""
    if n < 0:
        raise ValueError("qpoch: order n must be >= 0")
    out = 1.0 + 0j
    p = 1.0 + 0j
    for _ in range(n):
        out *= 1.0 - a * p
        p *= qq
    return out


def phi43(numer, denom, qq: complex, z: complex, order) -> complex | np.ndarray:
    """Terminating basic hypergeometric sum with 4 numerator and 3 denominator
    parameters.

    Evaluates sum_{k=0}^{n} z**k * prod_i (a_i; qq)_k /
    ((qq; qq)_k * prod_j (b_j; qq)_k) where n is the termination order
    ``order``, an int or an integer array.  The numerator parameters and
    ``order`` may be arrays; they broadcast to a common shape and the result
    has that shape, one sum per entry, each with its own n: a term past an
    entry's order is exactly zero.  Scalar inputs give a Python complex.
    Terms are accumulated in ascending k with running products.

    Raises ValueError when an order is negative, when a power of qq up to the
    largest order is past binary64's range, or when a denominator factor
    vanishes at an order below some entry's termination order.
    """
    if len(numer) != 4 or len(denom) != 3:
        raise ValueError("phi43: expected 4 numerator and 3 denominator parameters")
    order = np.asarray(order)
    if order.min() < 0:
        raise ValueError("phi43: order must be >= 0")
    n_max = int(order.max())
    powers = [1.0 + 0j]  # qq**k for k <= n_max, each a product of the one before
    for _ in range(n_max):
        powers.append(powers[-1] * qq)
    if not cmath.isfinite(powers[-1]):
        k = next(k for k, x in enumerate(powers) if not cmath.isfinite(x))
        raise ValueError(f"phi43: qq**{k} is past binary64's range")
    numer = [np.asarray(a, dtype=complex) for a in numer]
    denom = [complex(b) for b in denom]
    # the shape has an axis even for scalars: their sum takes the array arithmetic
    shape = np.broadcast_shapes((1,), order.shape, *(a.shape for a in numer))
    with np.errstate(all="ignore"):
        # one pass over every numerator parameter: the factor table 1 - a*qq**k
        ap = np.array(powers[:n_max])[:, None] * np.concatenate([a.ravel() for a in numer])
        table = 1.0 - ap
        factors, at = [], 0
        for a in numer:
            factors.append(table[:, at:at + a.size].reshape((n_max,) + a.shape))
            at += a.size
        dead = np.arange(n_max).reshape((n_max,) + (1,) * order.ndim) >= order
        total = np.ones(shape, dtype=complex)
        term = np.ones(shape, dtype=complex)
        for k in range(n_max):
            p = powers[k]
            scale = z
            for b in denom:
                d = 1.0 - b * p
                if abs(d) <= _DENOMINATOR_TOL * max(1.0, abs(b * p)):
                    raise ValueError("phi43: denominator q-shifted factorial factor vanishes")
                scale /= d
            d = 1.0 - powers[k + 1]
            if abs(d) <= _DENOMINATOR_TOL * max(1.0, abs(powers[k + 1])):
                raise ValueError("phi43: base q-shifted factorial factor vanishes")
            scale /= d
            for f in factors:
                term = term * f[k]
            term = term * scale
            np.copyto(term, 0.0, where=dead[k])
            total += term
    return complex(total[0]) if order.ndim == 0 and all(a.ndim == 0 for a in numer) else total
