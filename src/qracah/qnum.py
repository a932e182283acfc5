"""Complex q-arithmetic: q-numbers, q-shifted factorials, terminating 4phi3 sums.

Everything is plain binary64 ``complex``.  Identities involving these
primitives are verified downstream as residuals, never as exact equalities.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    q = 0 and q = +-1 are rejected outright; proximity of q to other roots
    of unity is range-dependent and is checked by
    :meth:`unit_power_violations` with the working range supplied by the
    caller.
    """

    q: complex
    q2: complex = 0j

    def __post_init__(self):
        q = complex(self.q)
        if abs(q) < _INVERSION_FLOOR:
            raise ValueError("QBase: q must be nonzero")
        if abs(q - 1.0) < 1e-14 or abs(q + 1.0) < 1e-14:
            raise ValueError("QBase: q = +-1 is excluded")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "q2", q * q)

    def unit_power_violations(self, k_max: int, tol: float = 1e-8) -> list[int]:
        """Exponents 1 <= k <= k_max where q**(2k) is numerically 1."""
        bad = []
        p = 1.0 + 0j
        for k in range(1, k_max + 1):
            p *= self.q2
            if abs(p - 1.0) <= tol:
                bad.append(k)
        return bad


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


def _termination_order(numer, qq, terms: int) -> int | None:
    """Smallest n < terms with some numerator parameter equal to qq**-n."""
    p = 1.0 + 0j
    for k in range(terms):
        for a in numer:
            ap = a * p
            if abs(ap - 1.0) <= _TERMINATION_TOL * max(1.0, abs(ap)):
                return k
        p *= qq
    return None


def phi43(numer, denom, qq: complex, z: complex, terms: int) -> complex:
    """Terminating basic hypergeometric sum with 4 numerator and 3 denominator
    parameters.

    Evaluates sum_{k=0}^{n} z**k * prod_i (a_i; qq)_k /
    ((qq; qq)_k * prod_j (b_j; qq)_k) where n is the termination order: the
    smallest n with a_i = qq**-n for some numerator parameter a_i.  Terms are
    accumulated in ascending k with running products.

    Raises ValueError when no numerator parameter has the terminating form
    within ``terms`` scan steps, or when a denominator factor vanishes within
    the first n+1 terms.
    """
    numer = [complex(a) for a in numer]
    denom = [complex(b) for b in denom]
    if len(numer) != 4 or len(denom) != 3:
        raise ValueError("phi43: expected 4 numerator and 3 denominator parameters")
    n = _termination_order(numer, qq, terms)
    if n is None:
        raise ValueError(
            "phi43: no numerator parameter of the form qq**-n found "
            f"within {terms} scan steps (non-terminating input)"
        )
    total = 1.0 + 0j
    term = 1.0 + 0j
    p = 1.0 + 0j  # qq**k
    pq = qq       # qq**(k+1)
    for _ in range(n):
        for a in numer:
            term *= 1.0 - a * p
        for b in denom:
            d = 1.0 - b * p
            if abs(d) <= _DENOMINATOR_TOL * max(1.0, abs(b * p)):
                raise ValueError("phi43: denominator q-shifted factorial factor vanishes")
            term /= d
        d = 1.0 - pq
        if abs(d) <= _DENOMINATOR_TOL * max(1.0, abs(pq)):
            raise ValueError("phi43: base q-shifted factorial factor vanishes")
        term /= d
        term *= z
        total += term
        p *= qq
        pq *= qq
    return total
