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

# Relative tolerance for recognizing a numerator parameter of the form qq**-n.
_TERMINATION_TOL = 1e-8

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


def phi43(numer, denom, qq: complex, z: complex, terms: int) -> complex | np.ndarray:
    """Terminating basic hypergeometric sum with 4 numerator and 3 denominator
    parameters.

    Evaluates sum_{k=0}^{n} z**k * prod_i (a_i; qq)_k /
    ((qq; qq)_k * prod_j (b_j; qq)_k) where n is the termination order: the
    smallest n < ``terms`` with a_i = qq**-n for some numerator parameter a_i.
    The numerator parameters may be arrays; they broadcast to a common shape
    and the result has that shape, one sum per entry, each with its own n.
    Scalar parameters give a Python complex.  Terms are accumulated in
    ascending k with running products.

    Raises ValueError when a power of qq below ``terms`` is past binary64's
    range, when some entry has no numerator parameter of the terminating form
    within ``terms`` scan steps, or when a denominator factor vanishes at an
    order below some entry's termination order.
    """
    if len(numer) != 4 or len(denom) != 3:
        raise ValueError("phi43: expected 4 numerator and 3 denominator parameters")
    powers = [1.0 + 0j]  # qq**k for k < terms, each a product of the one before
    for _ in range(terms - 1):
        powers.append(powers[-1] * qq)
    if not cmath.isfinite(powers[-1]):
        k = next(k for k, x in enumerate(powers) if not cmath.isfinite(x))
        raise ValueError(f"phi43: qq**{k} is past binary64's range")
    numer = [np.asarray(a, dtype=complex) for a in numer]
    denom = [complex(b) for b in denom]
    # One pass over every numerator parameter: the termination scan and the
    # factor table 1 - a*qq**k, zeroed from each parameter's first hit on so
    # that every entry's terms past its own order vanish exactly.
    ap = np.array(powers[:terms])[:, None] * np.concatenate([a.ravel() for a in numer])
    table = 1.0 - ap
    hit = np.abs(table) <= _TERMINATION_TOL * np.maximum(1.0, np.abs(ap))
    live = ~np.logical_or.accumulate(hit, axis=0)
    table[~live] = 0.0
    first = live.sum(axis=0)  # each parameter's first hit, or terms if none
    # order has an axis even for scalars: their sum takes the array arithmetic
    factors, order, at = [], np.full(1, terms), 0
    for a in numer:
        factors.append(table[:, at:at + a.size].reshape((terms,) + a.shape))
        order = np.minimum(order, first[at:at + a.size].reshape(a.shape))
        at += a.size
    n_max = int(order.max())
    if n_max == terms:
        raise ValueError(
            "phi43: no numerator parameter of the form qq**-n found "
            f"within {terms} scan steps (non-terminating input)"
        )
    total = np.ones(order.shape, dtype=complex)
    term = np.ones(order.shape, dtype=complex)
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
        total += term
    return complex(total[0]) if all(a.ndim == 0 for a in numer) else total
